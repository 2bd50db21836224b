"""Diagonal-covariance Gaussian mixture models for speaker modeling.

Training is deterministic: binary-splitting vector quantization seeds the
components, then a fixed number of EM passes refines weights, means, and
floored diagonal variances.  All densities are evaluated in the log domain.

EM and scoring evaluate densities through one quadratic form.  With
precisions ``p = 1/var`` and every vector and mean shifted by ``s``, the log
joint density of vector ``x`` and component ``m`` is

    log w_m + log N(x | mu_m, var_m) = [y*y, y, 1] . [A_m, c_m],   y = x - s,

    A_m = [-p_m / 2,  (mu_m - s) * p_m]                        (2D,)
    c_m = log w_m - (D log 2pi + sum log var_m + sum (mu_m - s)^2 p_m) / 2

so once ``_stats`` has built ``[y*y, y, 1]`` for a batch of ``N`` vectors,
one BLAS product with the rows ``[A_m, c_m]`` gives every log joint.  The
shift keeps the expanded square from cancelling away the digits of ``x -
mu`` when the means sit far from the origin relative to their spread.  A
BLAS product may block and accumulate differently for one row than for
many, so a batch scores within a few ulps of its rows one at a time, not
bit for bit; the same inputs in the same shapes always give the same bits.

EM shifts every training vector once by the training-data mean and builds
``[y*y, y, 1]`` once.  Each pass is then two products: the E-step's ``(M,
2D+1) x (2D+1, N)`` joint, laid out components by vectors so every
reduction over components runs over rows, and the M-step's ``resp x [y*y,
y, 1]``, which gives every component's shifted second and first moments
and its total responsibility at once.  Variances come from moments about a
point inside the data, which cancel less than moments about the origin.
EM stays deterministic because canonical ordering fixes its input.  LBG
only initialises EM, which re-estimates every parameter anyway, so each
split gets at most ``_KMEANS_MAX_PASSES`` Lloyd passes, fewer when a pass
reassigns no vector; every distance it compares keeps the bits of the
plain ``|x|^2 - 2 x.c + |c|^2`` evaluation.

The sum over components is a max-shifted log-sum-exp in numpy.  Each
argument of its ``exp`` (and of the EM responsibilities' ``exp(joint -
max joint)``) is first raised to ``_EXP_FLOOR = -700``.  numpy's ``exp``
leaves its vector loop for a scalar path, 20-80x slower per element, on any
element whose result underflows, below about -708; far components shifted
by a speaker's best one land there often (up to a third of a bank's terms).
The cut changes no result in practice: a slice whose peak is finite holds
the peak's own term ``exp(0) = 1``, every raised term was below ``e**-700
~ 1e-304`` either way, so the sum moves by at most ``M * 1e-304``, far
below half an ulp of 1.  ``np.maximum`` keeps NaN, and a slice that is all
``-inf`` is set to ``-inf`` explicitly.

A ``ModelBank`` stacks the S same-shaped models of one stream, so that one
product scores a batch against every speaker, one column per speaker in
id order.  The bank's ``S*M`` components are component-major
(column ``m*S + s`` is component ``m`` of speaker ``s``) in one contiguous
``(2D+1, S*M)`` matrix, the ``(N, S*M)`` joint is viewed as ``(N, M, S)``,
and the log-sum-exp runs over its middle axis, which numpy reduces faster
than a short last axis.  The bank has one shift, the mean of all ``S*M``
component means.  Beyond the rounding of the score itself, trading a
speaker's own shift for the bank's costs about ``eps * sum_d delta_d**2 /
var_d`` nats per vector, ``delta`` being the gap between the two shifts.
On trained stores of the synthetic corpora that kept every utterance total
within 5e-13 of scoring each model alone, relatively; speakers that hold
one dimension constant, at the variance floor, at different values push it
to ~1e-7 nats, which the tests pin against this bound.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .errors import ConfigMismatch, InsufficientData

# A component whose total responsibility falls below this is re-seeded.
COLLAPSE_THRESHOLD = 1e-10

# Lloyd passes per LBG split, chosen by a sweep over 2-50 on the benchmark
# corpora: 5 passes cut LBG+EM time by 60 % against 50, and left EM's final
# log-likelihood and every stream's PIA no worse on average.
_KMEANS_MAX_PASSES = 5

LOG_TWO_PI = float(np.log(2.0 * np.pi))

# exp arguments are raised to this before exp; see the module docstring.
_EXP_FLOOR = -700.0


@dataclass(frozen=True)
class GmmModel:
    """Mixture weights, means, and diagonal variances for one speaker stream.

    ``em_log_likelihoods`` holds the total training log-likelihood at
    initialization and after each EM pass; it is informational and not
    serialized.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    em_log_likelihoods: tuple = ()

    def __post_init__(self):
        weights = np.array(self.weights, dtype=np.float64)
        means = np.array(self.means, dtype=np.float64)
        variances = np.array(self.variances, dtype=np.float64)
        if means.ndim != 2:
            raise ValueError("means must be (num_components, dim)")
        if variances.shape != means.shape or weights.shape != (means.shape[0],):
            raise ValueError("weights/means/variances shapes are inconsistent")
        if abs(float(weights.sum()) - 1.0) > 1e-9 or np.any(weights < 0.0):
            raise ValueError("weights must be non-negative and sum to 1")
        if np.any(variances <= 0.0):
            raise ValueError("variances must be strictly positive")
        for name, arr in (("weights", weights), ("means", means), ("variances", variances)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _quadratic_form_of(
    weights: np.ndarray, offsets: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """Rows ``[A_m, c_m]`` (K, 2D + 1) of the quadratic form in the module
    docstring for K components whose means lie at ``offsets`` (K, D) from
    the shift: the coefficients of ``[y*y, y, 1]``."""
    precisions = 1.0 / variances
    with np.errstate(divide="ignore"):
        log_weights = np.log(weights)
    const = log_weights - 0.5 * (
        offsets.shape[1] * LOG_TWO_PI
        + np.log(variances).sum(axis=1)
        + (offsets * offsets * precisions).sum(axis=1)
    )
    return np.concatenate([-0.5 * precisions, offsets * precisions, const[:, None]], axis=1)


def _stats(shifted: np.ndarray) -> np.ndarray:
    """``[y*y, y, 1]`` (N, 2D + 1) for shifted vectors ``y`` (N, D): the
    terms whose coefficients are the rows ``[A_m, c_m]``."""
    return np.hstack([shifted * shifted, shifted, np.ones((shifted.shape[0], 1))])


class ModelBank:
    """The models of one stream, one per speaker, stacked for scoring.

    ``speakers`` is sorted; ``num_components`` counts all ``S*M`` stacked
    Gaussians.  The quadratic form is ``(2D+1, S*M)``: column ``m*S + s``
    holds ``[A_m, c_m]`` of speaker ``speakers[s]``, and one shift serves
    every speaker (see the module docstring).

    Raises:
        ValueError: no models.
        ConfigMismatch: the models differ in component count or dimension.
    """

    def __init__(self, models: dict[str, GmmModel]):
        if not models:
            raise ValueError("no speakers to score against")
        self.speakers = tuple(sorted(models))
        stacked = [models[speaker] for speaker in self.speakers]
        first = stacked[0]
        for speaker, model in zip(self.speakers, stacked):
            if (model.num_components, model.dim) != (first.num_components, first.dim):
                raise ConfigMismatch(
                    f"cannot stack models of unequal shape: speaker {speaker!r} has "
                    f"{model.num_components} components of dimension {model.dim}, speaker "
                    f"{self.speakers[0]!r} has {first.num_components} of dimension {first.dim}"
                )
        self.dim = first.dim
        self.num_components = len(stacked) * first.num_components
        means = np.stack([m.means for m in stacked], axis=1).reshape(-1, self.dim)
        self._shift = means.mean(axis=0)
        self._form = np.ascontiguousarray(_quadratic_form_of(
            np.stack([m.weights for m in stacked], axis=1).reshape(-1),
            means - self._shift,
            np.stack([m.variances for m in stacked], axis=1).reshape(-1, self.dim),
        ).T)


def _canonical_order(features: np.ndarray) -> np.ndarray:
    """Rows sorted lexicographically: makes every accumulation during
    training independent of the caller's vector order, so permuting the
    training set yields a bit-identical model.

    A stable sort on column 0 is that order when column 0 strictly
    increases after it; only a tie (or a NaN) there needs the full lexsort."""
    order = np.argsort(features[:, 0], kind="stable")
    first = features[order, 0]
    if not np.all(first[1:] > first[:-1]):
        order = np.lexsort(features.T[::-1])
    return features[order]


def _floor_of(global_var: np.ndarray, factor: float) -> np.ndarray:
    # Guard constant dimensions so variances stay strictly positive.
    return np.maximum(factor * global_var, 1e-12)


def _nearest_centroid(
    scaled: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Index of each vector's nearest centroid.  ``scaled`` is ``-2 *
    features`` and ``sq_norms`` the vectors' squared norms as a column;
    both stay fixed while the centroids move.  Scaling by -2 is exact, so
    every distance has the bits of ``|x|^2 - 2 x.c + |c|^2``."""
    sq = sq_norms + scaled @ centroids.T
    sq += (centroids * centroids).sum(axis=1)
    return sq.argmin(axis=1)


def _reseed_empty_cells(features, centroids, labels, empty):
    """Move empty centroids onto the points farthest from their centroid."""
    dists = np.sum((features - centroids[labels]) ** 2, axis=1)
    farthest = np.argsort(dists, kind="stable")[::-1]
    for slot, cell in enumerate(empty):
        centroids[cell] = features[farthest[slot % farthest.size]]
    return centroids


def _cell_means(features: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of each cell's vectors; an empty cell gets zeros.

    One ``bincount`` adds every cell's vectors in row order, the order in
    which ``features[labels == j].mean(axis=0)`` sums a 2-D cell, so the
    two agree bit for bit (1-D data aside, where numpy sums pairwise).
    """
    dim = features.shape[1]
    # Row j of the table holds cell j's bins; taking rows is the fast gather.
    bins = np.arange(counts.size * dim).reshape(counts.size, dim).take(labels, axis=0)
    sums = np.bincount(bins.ravel(), weights=features.ravel(), minlength=counts.size * dim)
    return sums.reshape(counts.size, dim) / np.maximum(counts, 1)[:, None]


def _kmeans(
    features: np.ndarray, scaled: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """At most ``_KMEANS_MAX_PASSES`` Lloyd passes.

    Returns the centroids and, when a pass computed them, their labels.  A
    pass whose labels equal the previous pass's stops at once: the centroids
    were computed from those very labels, so the pass would return them bit
    for bit."""
    labels = None
    for _ in range(_KMEANS_MAX_PASSES):
        new_labels = _nearest_centroid(scaled, sq_norms, centroids)
        if labels is not None and (new_labels == labels).all():
            return centroids, labels
        labels = new_labels
        counts = np.bincount(labels, minlength=centroids.shape[0])
        centroids = _cell_means(features, labels, counts)
        if counts.min() == 0:
            empty = np.flatnonzero(counts == 0)
            centroids = _reseed_empty_cells(features, centroids, labels, empty)
    return centroids, None


def lbg_init(features: np.ndarray, num_components: int, cfg: ModelConfig) -> GmmModel:
    """Binary-splitting VQ initialization of a mixture model.

    Starting from the global centroid, each codeword is split into a
    +/- perturbed pair (epsilon times the per-dimension standard deviation)
    and refined by Lloyd passes until ``num_components`` cells exist.  Each
    split gets at most ``_KMEANS_MAX_PASSES`` passes and stops early when a
    pass reassigns no vector: the codebook only seeds EM.  Cell occupancies
    give the weights; cell scatter gives the floored variances.

    Raises:
        InsufficientData: fewer vectors than components, or cells cannot
            all be populated.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be (num_vectors, dim)")
    if num_components < 1 or num_components & (num_components - 1):
        raise ValueError(f"need a power-of-two component count, got {num_components}")
    if features.shape[0] < num_components:
        raise InsufficientData(
            f"{features.shape[0]} vectors for {num_components} components"
        )
    features = _canonical_order(features)
    scaled = -2.0 * features
    sq_norms = np.sum(features**2, axis=1)[:, None]
    global_var = features.var(axis=0)
    floor = _floor_of(global_var, cfg.variance_floor_factor)
    delta = cfg.lbg_split_epsilon * np.sqrt(global_var)
    centroids = features.mean(axis=0, keepdims=True)
    labels = None
    while centroids.shape[0] < num_components:
        centroids = np.vstack([centroids + delta, centroids - delta])
        centroids, labels = _kmeans(features, scaled, sq_norms, centroids)

    if labels is None:
        labels = _nearest_centroid(scaled, sq_norms, centroids)
    counts = np.bincount(labels, minlength=num_components)
    for _ in range(10):
        if counts.min() > 0:
            break
        empty = np.flatnonzero(counts == 0)
        centroids = _reseed_empty_cells(features, centroids, labels, empty)
        labels = _nearest_centroid(scaled, sq_norms, centroids)
        counts = np.bincount(labels, minlength=num_components)
    else:
        raise InsufficientData("could not populate every cell; too few distinct vectors")

    means = _cell_means(features, labels, counts)
    scatter = features - means[labels]
    variances = np.maximum(_cell_means(scatter * scatter, labels, counts), floor)
    weights = counts / counts.sum()
    return GmmModel(weights=weights, means=means, variances=variances)


def _exp_clamped(shifted: np.ndarray) -> np.ndarray:
    """``exp`` of ``shifted``, in place, its arguments raised to ``_EXP_FLOOR``
    first; the module docstring says why the cut changes no sum it feeds."""
    np.maximum(shifted, _EXP_FLOOR, out=shifted)
    return np.exp(shifted, out=shifted)


def _logsumexp(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """log sum exp over ``axis``, shifted by each max along it; a max that
    is not finite is shifted by 0, and an all ``-inf`` slice gives ``-inf``."""
    peak = values.max(axis=axis, keepdims=True)
    empty = np.squeeze(peak == -np.inf, axis=axis)
    peak[~np.isfinite(peak)] = 0.0
    total = _exp_clamped(values - peak).sum(axis=axis)
    return np.where(empty, -np.inf, np.log(total) + np.squeeze(peak, axis=axis))


def gmm_log_likelihoods(features: np.ndarray, bank: ModelBank) -> np.ndarray:
    """Per-vector log-likelihoods (N, S) of a feature matrix under each of
    the bank's S speakers, one column per speaker in id order."""
    speakers = len(bank.speakers)
    joint = _stats(np.asarray(features, dtype=np.float64) - bank._shift) @ bank._form
    return _logsumexp(joint.reshape(-1, bank.num_components // speakers, speakers), axis=1)


def em_train(features: np.ndarray, init: GmmModel, cfg: ModelConfig) -> GmmModel:
    """Refine a mixture with a fixed number of EM passes.

    Each pass computes responsibilities from the current parameters, then
    re-estimates weights (mean responsibility), means, and floored diagonal
    variances.  A component whose total responsibility collapses is
    re-seeded on the worst-scoring vector and training continues.

    Means and moments are kept about the training-data mean (module
    docstring).

    Returns the final model with the log-likelihood trace attached
    (initial value plus one per pass).
    """
    features = np.asarray(features, dtype=np.float64)
    num, dim = features.shape
    if num < 10 * init.num_components:
        warnings.warn(
            f"only {num} vectors for {init.num_components} components; "
            "estimates may be unreliable",
            stacklevel=2,
        )
    features = _canonical_order(features)
    centre = features.mean(axis=0)
    shifted = features - centre
    # [y*y, y, 1]: the E-step's inputs, and the M-step's moments and totals.
    stats = _stats(shifted)
    data_var = features.var(axis=0)
    floor = _floor_of(data_var, cfg.variance_floor_factor)
    global_var = np.maximum(data_var, floor)

    weights, offsets, variances = init.weights, init.means - centre, init.variances
    trace = []
    for iteration in range(cfg.em_iterations + 1):
        # Components along axis 0, so every reduction over them runs over rows.
        joint = _quadratic_form_of(weights, offsets, variances) @ stats.T
        peak = joint.max(axis=0)
        joint -= peak
        resp = _exp_clamped(joint)
        density = resp.sum(axis=0)
        per_vector = np.log(density) + peak
        trace.append(float(per_vector.sum()))
        if iteration == cfg.em_iterations:
            break
        resp /= density
        moments = resp @ stats
        totals = moments[:, -1]
        weights = totals / num

        # Dividing by the clamped totals leaves live components exact and
        # keeps collapsed ones finite until they are re-seeded below.
        moments[:, :-1] /= np.maximum(totals, COLLAPSE_THRESHOLD)[:, None]
        offsets = moments[:, dim:-1]
        variances = np.maximum(moments[:, :dim] - offsets * offsets, floor)
        if totals.min() < COLLAPSE_THRESHOLD:
            worst = np.argsort(per_vector, kind="stable")
            for slot, j in enumerate(np.flatnonzero(totals < COLLAPSE_THRESHOLD)):
                offsets[j] = shifted[worst[slot % num]]
                variances[j] = global_var
                weights[j] = 1.0 / num
            weights = weights / weights.sum()

    return GmmModel(weights=weights, means=offsets + centre, variances=variances,
                    em_log_likelihoods=tuple(trace))
