"""Patient records, survival discretization, fold splitting, synthetic cohorts.

The synthetic generator plants a known morphology-to-genomics-to-survival
structure: patches are noisy copies of a handful of prototype vectors, gene
expression is a linear readout of each patient's prototype mixture, and the
event hazard grows with designated malignant prototype weight. The planted
truth is returned alongside the cohort so tests can score recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import Config, ConfigError, DataFormatError

CATEGORY_NAMES = (
    "tumor_suppression",
    "oncogenesis",
    "protein_kinases",
    "cellular_differentiation",
    "transcription",
    "cytokines_and_growth",
)


@dataclass
class PatchBag:
    """One patient's patch feature matrix, shape (n_patches, feature_dim)."""
    patient_id: str
    features: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.features)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise DataFormatError(
                f"bag for '{self.patient_id}' must be a non-empty 2-d matrix, "
                f"got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DataFormatError(f"bag for '{self.patient_id}' has non-finite entries")
        self.features = arr

    @property
    def n_patches(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass
class SurvivalLabel:
    time_months: float
    censor: int                 # 0 = event observed, 1 = censored

    def __post_init__(self):
        self.time_months = float(self.time_months)
        if not np.isfinite(self.time_months) or self.time_months <= 0:
            raise DataFormatError(f"time_months must be positive, got {self.time_months}")
        if self.censor not in (0, 1):
            raise DataFormatError(f"censor flag must be 0 or 1, got {self.censor}")


@dataclass
class Patient:
    bag: PatchBag
    label: SurvivalLabel

    @property
    def patient_id(self) -> str:
        return self.bag.patient_id


@dataclass
class Cohort:
    """Patients plus, when genomics is loaded, the one copy of it: category
    names, gene ids per category, and one read-only float64 (n_genes,
    n_patients) matrix per category, patients in cohort order. These three
    fields are all set or all None, as `validate` checks."""
    patients: list[Patient]
    category_names: tuple[str, ...] | None = None
    gene_ids: tuple[tuple[str, ...], ...] | None = None
    expression: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.expression is not None:
            self.expression = tuple(np.asarray(m, dtype=np.float64).view()
                                    for m in self.expression)
            for matrix in self.expression:
                matrix.flags.writeable = False

    def __len__(self) -> int:
        return len(self.patients)

    def __getitem__(self, i: int) -> Patient:
        return self.patients[i]

    def __iter__(self) -> Iterator[Patient]:
        return iter(self.patients)

    @property
    def feature_dim(self) -> int:
        return self.patients[0].bag.feature_dim

    @property
    def category_sizes(self) -> tuple[int, ...] | None:
        return None if self.expression is None else tuple(len(m) for m in self.expression)

    def times(self) -> np.ndarray:
        return np.array([p.label.time_months for p in self.patients])

    def censor_flags(self) -> np.ndarray:
        return np.array([p.label.censor for p in self.patients], dtype=np.int64)

    def validate(self) -> None:
        if not self.patients:
            raise DataFormatError("cohort is empty")
        seen: set[str] = set()
        d = self.feature_dim
        for p in self.patients:
            if p.patient_id in seen:
                raise DataFormatError(f"duplicate patient id '{p.patient_id}'")
            seen.add(p.patient_id)
            if p.bag.feature_dim != d:
                raise DataFormatError(
                    f"patient '{p.patient_id}' has feature dim {p.bag.feature_dim}, "
                    f"cohort uses {d}")
        genomics = (self.category_names, self.gene_ids, self.expression)
        if all(field is None for field in genomics):
            return
        if any(field is None for field in genomics) or len(set(map(len, genomics))) != 1:
            raise DataFormatError("category names, gene ids and expression matrices "
                                  "must all be given, one of each per category")
        for name, ids, matrix in zip(*genomics):
            if matrix.shape != (len(ids), len(self.patients)):
                raise DataFormatError(
                    f"category '{name}' expression has shape {matrix.shape}, "
                    f"expected (genes, patients) = ({len(ids)}, {len(self.patients)})")
            if not np.isfinite(matrix).all():
                raise DataFormatError(f"category '{name}' has non-finite expression")


# ---------------------------------------------------------------------------
# survival-time discretization
# ---------------------------------------------------------------------------

def discretize_survival(times: np.ndarray, censor: np.ndarray,
                        n_bins: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Quartile-style interval boundaries from uncensored event times.

    Boundaries are the inner quantiles (linear interpolation) of event
    times; every patient, censored or not, gets the right-open interval
    containing their observed time, with the last interval unbounded.
    Returns (boundaries of length n_bins-1, per-patient bin indices).
    """
    times = np.asarray(times, dtype=np.float64)
    censor = np.asarray(censor)
    if n_bins < 1:
        raise ConfigError("n_bins must be positive")
    event_times = times[censor == 0]
    if event_times.size < n_bins:
        raise ConfigError(
            f"need at least {n_bins} uncensored patients to form {n_bins} "
            f"intervals, found {event_times.size}")
    quantiles = np.arange(1, n_bins) / n_bins
    boundaries = np.quantile(event_times, quantiles)
    return boundaries, assign_bins(times, boundaries)


def assign_bins(times: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Right-open interval index per time; boundary times go right."""
    return np.searchsorted(boundaries, np.asarray(times, dtype=np.float64),
                           side="right").astype(np.int64)


def comparable_pairs(times: np.ndarray,
                     censor: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """The pairs a c-index compares: each patient i with an observed event,
    with the mask of the patients whose time is strictly later."""
    times = np.asarray(times, dtype=np.float64)
    for i in np.flatnonzero(np.asarray(censor) == 0):
        yield i, times > times[i]


# ---------------------------------------------------------------------------
# fold splitting
# ---------------------------------------------------------------------------

def make_folds(cohort: Cohort, seed: int,
               n_folds: int = 5) -> list[tuple[np.ndarray, np.ndarray]]:
    """Censorship-stratified shuffle split into (train, validation) folds.

    Events and censored patients are shuffled separately, concatenated, and
    dealt round-robin, so each fold's censoring proportion tracks the
    cohort's and validation sizes differ by at most one. Whether a fold can
    be scored is `check_validation_fold`'s question, asked only of the
    folds a run trains.
    """
    n = len(cohort)
    if n < n_folds:
        raise ConfigError(f"cannot split {n} patients into {n_folds} folds")
    rng = np.random.default_rng(seed)
    censor = cohort.censor_flags()
    events = np.flatnonzero(censor == 0)
    censored = np.flatnonzero(censor == 1)
    order = np.concatenate([rng.permutation(events), rng.permutation(censored)])
    folds = []
    all_idx = np.arange(n)
    for f in range(n_folds):
        val = np.sort(order[f::n_folds])
        train = np.setdiff1d(all_idx, val)
        folds.append((train, val))
    return folds


def check_validation_fold(cohort: Cohort, val_idx: np.ndarray, fold: int,
                          n_folds: int) -> None:
    """`ConfigError` naming the fold when its validation patients hold no
    comparable pair, so its c-index would be undefined; run before training."""
    times = cohort.times()[val_idx]
    censor = cohort.censor_flags()[val_idx]
    if not any(later.any() for _, later in comparable_pairs(times, censor)):
        raise ConfigError(f"validation fold {fold} of {n_folds} has no comparable pair "
                          f"(an event with a later time in the fold) to score")


# ---------------------------------------------------------------------------
# synthetic cohort generator
# ---------------------------------------------------------------------------

@dataclass
class SynthConfig(Config):
    n_patients: int = 200
    patch_range: tuple[int, int] = (32, 96)
    feature_dim: int = 32
    n_prototypes: int = 6
    gene_counts: tuple[int, ...] = (4, 12, 16, 16, 48, 12)
    patch_noise: float = 0.6
    gene_noise: float = 0.25
    censor_target: float = 0.30
    base_hazard: float = 1.0 / 40.0
    risk_coeffs: tuple[float, ...] | None = None
    driven_fraction: float = 0.5
    mixture_alpha: float = 0.3

    def __post_init__(self):
        if self.n_patients < 1:
            raise ConfigError("n_patients must be positive")
        lo, hi = self.patch_range
        if not 1 <= lo <= hi:
            raise ConfigError(f"invalid patch_range {self.patch_range}")
        if self.n_prototypes < 1:
            raise ConfigError("n_prototypes must be positive")
        if self.n_prototypes > self.feature_dim:
            raise ConfigError(
                f"n_prototypes {self.n_prototypes} exceeds feature_dim "
                f"{self.feature_dim}; prototypes would be linearly dependent")
        if len(self.gene_counts) != len(CATEGORY_NAMES):
            raise ConfigError(
                f"gene_counts needs {len(CATEGORY_NAMES)} entries, "
                f"got {len(self.gene_counts)}")
        if any(c < 1 for c in self.gene_counts):
            raise ConfigError("every gene category needs at least one gene")
        if not 0.0 <= self.censor_target < 1.0:
            raise ConfigError("censor_target must be in [0, 1)")
        if self.patch_noise < 0 or self.gene_noise < 0:
            raise ConfigError("noise levels must be non-negative")
        if self.risk_coeffs is not None and len(self.risk_coeffs) != self.n_prototypes:
            raise ConfigError("risk_coeffs length must equal n_prototypes")
        if not 0.0 <= self.driven_fraction <= 1.0:
            raise ConfigError("driven_fraction must be in [0, 1]")
        if self.base_hazard <= 0 or self.mixture_alpha <= 0:
            raise ConfigError("base_hazard and mixture_alpha must be positive")

    def resolved_risk_coeffs(self) -> np.ndarray:
        if self.risk_coeffs is not None:
            return np.asarray(self.risk_coeffs, dtype=np.float64)
        coeffs = np.zeros(self.n_prototypes)
        coeffs[0] = 6.0
        if self.n_prototypes > 1:
            coeffs[1] = -6.0
        return coeffs


@dataclass
class PlantedTruth:
    """Everything the generator knows that the model is asked to recover."""
    prototypes: np.ndarray                 # (P, feature_dim)
    mixtures: np.ndarray                   # (n_patients, P)
    gene_maps: tuple[np.ndarray, ...]      # per category, (n_genes, P)
    risk_coeffs: np.ndarray                # (P,)
    risks: np.ndarray                      # (n_patients,)
    driven_masks: tuple[np.ndarray, ...]   # per category, bool per gene
    assignments: tuple[np.ndarray, ...]    # per patient, each patch's prototype


def _solve_censor_rate(event_rates: np.ndarray, target: float) -> float:
    """Exponential censoring rate giving the target expected censored share.

    With event rate lam and censor rate c, P(censored) = c / (c + lam);
    solved for the cohort mean by bisection (the mean is increasing in c).
    """
    if target <= 0.0:
        return 0.0

    def mean_censored(c: float) -> float:
        return float(np.mean(c / (c + event_rates)))

    lo, hi = 0.0, float(event_rates.max())
    while mean_censored(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_censored(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _gene_map(rng: np.random.Generator, n_genes: int, n_prototypes: int,
              driven_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """One category's generating map plus its driven-gene mask.

    Driven rows load differently on the malignant and protective prototypes
    (index 0 and 1), so their expression separates risk groups; flat rows
    are constant across prototypes and carry no survival signal.
    """
    n_driven = max(1, round(driven_fraction * n_genes)) if driven_fraction > 0 else 0
    n_driven = min(n_driven, n_genes)
    gene_map = np.empty((n_genes, n_prototypes))
    driven = np.zeros(n_genes, dtype=bool)
    driven[:n_driven] = True
    for g in range(n_genes):
        base = rng.uniform(1.0, 3.0)
        row = np.full(n_prototypes, base)
        row += rng.uniform(-0.2, 0.2, size=n_prototypes) * (g < n_driven)
        if g < n_driven:
            delta = rng.uniform(0.8, 2.0) * rng.choice((-1.0, 1.0))
            row[0] = base + delta
            if n_prototypes > 1:
                row[1] = base - delta
        gene_map[g] = np.maximum(row, 0.05)
    return gene_map, driven


def synth_generate(config: SynthConfig, seed: int) -> tuple[Cohort, PlantedTruth]:
    """Deterministic planted-structure cohort; see the module docstring."""
    rng = np.random.default_rng(seed)
    P, d = config.n_prototypes, config.feature_dim
    prototypes = rng.normal(0.0, 1.0, size=(P, d))
    risk_coeffs = config.resolved_risk_coeffs()
    maps_and_masks = [_gene_map(rng, n, P, config.driven_fraction)
                      for n in config.gene_counts]
    gene_maps = tuple(m for m, _ in maps_and_masks)
    driven_masks = tuple(mask for _, mask in maps_and_masks)

    mixtures = rng.dirichlet(np.full(P, config.mixture_alpha),
                             size=config.n_patients)
    risks = mixtures @ risk_coeffs
    event_rates = config.base_hazard * np.exp(risks)
    event_times = rng.exponential(1.0 / event_rates)
    censor_rate = _solve_censor_rate(event_rates, config.censor_target)
    if censor_rate > 0.0:
        censor_times = rng.exponential(1.0 / censor_rate, size=config.n_patients)
    else:
        censor_times = np.full(config.n_patients, np.inf)

    lo, hi = config.patch_range
    patch_counts = rng.integers(lo, hi + 1, size=config.n_patients)

    expression = tuple(np.empty((n, config.n_patients)) for n in config.gene_counts)
    patients, assignments = [], []
    for i in range(config.n_patients):
        n_p = int(patch_counts[i])
        assignments.append(rng.choice(P, size=n_p, p=mixtures[i]))
        features = prototypes[assignments[i]]
        if config.patch_noise > 0:
            features = features + config.patch_noise * rng.normal(size=(n_p, d))
        features = features.astype(np.float32)

        for gene_map, matrix in zip(gene_maps, expression):
            expr = gene_map @ mixtures[i]
            if config.gene_noise > 0:
                expr = expr + config.gene_noise * rng.normal(size=expr.shape)
                expr = np.maximum(expr, 0.0)
            matrix[:, i] = expr.astype(np.float32)

        censored = bool(censor_times[i] < event_times[i])
        observed = float(min(event_times[i], censor_times[i]))
        patients.append(Patient(
            bag=PatchBag(f"synthetic_{i:04d}", features),
            label=SurvivalLabel(observed, 1 if censored else 0),
        ))

    gene_ids = tuple(
        tuple(f"{name}_{g:04d}" for g in range(count))
        for name, count in zip(CATEGORY_NAMES, config.gene_counts))
    cohort = Cohort(patients, CATEGORY_NAMES, gene_ids, expression)
    cohort.validate()
    truth = PlantedTruth(prototypes, mixtures, gene_maps, risk_coeffs,
                         risks, driven_masks, tuple(assignments))
    return cohort, truth
