"""Diagonal-covariance Gaussian mixture models for speaker modeling.

Training is deterministic: binary-splitting vector quantization seeds the
components, then a fixed number of EM passes refines weights, means, and
floored diagonal variances.  All densities are evaluated in the log domain.

Scoring, the EM E-step and the log-likelihood trace share one kernel.  With
precisions ``p = 1/var`` and every vector and mean shifted by ``s``, the mean
of the component means, the log joint density of vector ``x`` and component
``m`` is the quadratic form

    log w_m + log N(x | mu_m, var_m) = [y*y, y] . A_m + c_m,   y = x - s,

    A_m = [-p_m / 2,  (mu_m - s) * p_m]                        (2D,)
    c_m = log w_m - (D log 2pi + sum log var_m + sum (mu_m - s)^2 p_m) / 2

so a batch of ``N`` vectors costs one ``(N, 2D) x (2D, M)`` product.  Each
model computes ``s``, ``A`` and ``c`` once.  The shift keeps the expanded
square from cancelling away the digits of ``x - mu`` when the means sit far
from the origin relative to their spread.  The product is an ``einsum``, not
``@``: a BLAS matrix product may block and accumulate differently for one
row than for many, while ``einsum`` computes every output element the same
way, so a batch scores bit-identically to its rows one at a time.  The sum
over components is a max-shifted log-sum-exp in numpy.

A ``ModelBank`` stacks the S same-shaped models of one stream, so that one
product scores a batch against every speaker: its ``S*M`` rows are
component-major (row ``m*S + s`` is component ``m`` of speaker ``s``), the
``(N, S*M)`` joint is viewed as ``(N, M, S)``, and the log-sum-exp runs over
its middle axis, which numpy reduces faster than a short last axis.  The
bank has one shift, the mean of all ``S*M`` component means, computed by the
same helper as a model's.  Beyond the rounding of the score itself, trading
a speaker's own shift for the bank's costs about ``eps * sum_d delta_d**2 /
var_d`` nats per vector, ``delta`` being the gap between the two shifts.
On trained stores of the synthetic corpora that kept every utterance total
within 5e-13 of the per-model kernel, relatively; speakers that hold one
dimension constant, at the variance floor, at different values push it to
~1e-7 nats, which the tests pin against this bound.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .config import ModelConfig
from .errors import ConfigMismatch, InsufficientData

# A component whose total responsibility falls below this is re-seeded.
COLLAPSE_THRESHOLD = 1e-10

_KMEANS_MAX_PASSES = 50
_KMEANS_MOVE_TOL = 1e-6

LOG_TWO_PI = float(np.log(2.0 * np.pi))


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

    @cached_property
    def _quadratic_form(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shift, matrix and constant of the quadratic form; computed once per model."""
        return _quadratic_form_of(self.weights, self.means, self.variances)


def _quadratic_form_of(
    weights: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shift ``s`` (D,), matrix ``A`` (K, 2D) and constant ``c`` (K,) of the
    quadratic form in the module docstring for K components, ``s`` being the
    mean of their means."""
    shift = means.mean(axis=0)
    centred = means - shift
    precisions = 1.0 / variances
    form = np.hstack([-0.5 * precisions, centred * precisions])
    with np.errstate(divide="ignore"):
        log_weights = np.log(weights)
    const = log_weights - 0.5 * (
        means.shape[1] * LOG_TWO_PI
        + np.sum(np.log(variances), axis=1)
        + np.sum(centred * centred * precisions, axis=1)
    )
    return shift, form, const


class ModelBank:
    """The models of one stream, one per speaker, stacked for scoring.

    ``speakers`` is sorted; ``num_components`` counts all ``S*M`` stacked
    Gaussians.  Row ``m*S + s`` of the quadratic form is component ``m`` of
    speaker ``speakers[s]``, and one shift serves every speaker (see the
    module docstring).

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
        self._quadratic_form = _quadratic_form_of(
            np.stack([m.weights for m in stacked], axis=1).reshape(-1),
            np.stack([m.means for m in stacked], axis=1).reshape(-1, self.dim),
            np.stack([m.variances for m in stacked], axis=1).reshape(-1, self.dim),
        )


def _canonical_order(features: np.ndarray) -> np.ndarray:
    """Rows sorted lexicographically: makes every accumulation during
    training independent of the caller's vector order, so permuting the
    training set yields a bit-identical model."""
    return features[np.lexsort(features.T[::-1])]


def variance_floor(features: np.ndarray, factor: float) -> np.ndarray:
    """Per-dimension floor: factor times the global variance of the data."""
    features = np.asarray(features, dtype=np.float64)
    global_var = features.var(axis=0)
    floor = factor * global_var
    # Guard constant dimensions so variances stay strictly positive.
    return np.maximum(floor, 1e-12)


def _nearest_centroid(features: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    sq = (
        np.sum(features**2, axis=1)[:, None]
        - 2.0 * features @ centroids.T
        + np.sum(centroids**2, axis=1)[None, :]
    )
    return np.argmin(sq, axis=1)


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
    bins = (labels[:, None] * dim + np.arange(dim)).ravel()
    sums = np.bincount(bins, weights=features.ravel(), minlength=counts.size * dim)
    return sums.reshape(counts.size, dim) / np.maximum(counts, 1)[:, None]


def _kmeans(features: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Lloyd passes until centroid movement < tolerance or the pass limit."""
    for _ in range(_KMEANS_MAX_PASSES):
        labels = _nearest_centroid(features, centroids)
        counts = np.bincount(labels, minlength=centroids.shape[0])
        new_centroids = _cell_means(features, labels, counts)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            new_centroids = _reseed_empty_cells(features, new_centroids, labels, empty)
        move = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if move < _KMEANS_MOVE_TOL:
            break
    return centroids


def lbg_init(features: np.ndarray, num_components: int, cfg: ModelConfig) -> GmmModel:
    """Binary-splitting VQ initialization of a mixture model.

    Starting from the global centroid, each codeword is split into a
    +/- perturbed pair (epsilon times the per-dimension standard deviation)
    and refined by k-means until ``num_components`` cells exist.  Cell
    occupancies give the weights; cell scatter gives the floored variances.

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
    floor = variance_floor(features, cfg.variance_floor_factor)
    delta = cfg.lbg_split_epsilon * np.sqrt(features.var(axis=0))
    centroids = features.mean(axis=0, keepdims=True)
    while centroids.shape[0] < num_components:
        centroids = np.vstack([centroids + delta, centroids - delta])
        centroids = _kmeans(features, centroids)

    labels = _nearest_centroid(features, centroids)
    counts = np.bincount(labels, minlength=num_components)
    for _ in range(10):
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            break
        centroids = _reseed_empty_cells(features, centroids, labels, empty)
        labels = _nearest_centroid(features, centroids)
        counts = np.bincount(labels, minlength=num_components)
    else:
        raise InsufficientData("could not populate every cell; too few distinct vectors")

    means = _cell_means(features, labels, counts)
    scatter = features - means[labels]
    variances = np.maximum(_cell_means(scatter * scatter, labels, counts), floor)
    weights = counts / counts.sum()
    return GmmModel(weights=weights, means=means, variances=variances)


def component_log_density(x: np.ndarray, i: int, model: GmmModel) -> float:
    """Log of the i-th component's Gaussian density at one vector."""
    x = np.asarray(x, dtype=np.float64)
    diff = x - model.means[i]
    return float(
        -0.5
        * (
            model.dim * LOG_TWO_PI
            + np.sum(np.log(model.variances[i]))
            + np.sum(diff * diff / model.variances[i])
        )
    )


def _logsumexp(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """log sum exp over ``axis``, shifted by each max along it; a max that
    is not finite is shifted by 0, so an all ``-inf`` slice gives ``-inf``."""
    peak = values.max(axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    total = np.exp(values - peak).sum(axis=axis)
    with np.errstate(divide="ignore"):
        return np.log(total) + np.squeeze(peak, axis=axis)


def _log_joint(features: np.ndarray, model: GmmModel | ModelBank) -> np.ndarray:
    """log w_k + log N(x_n | component k) for a batch: shape (num_vectors, K)."""
    shift, form, const = model._quadratic_form
    y = features - shift
    return np.einsum("nk,mk->nm", np.hstack([y * y, y]), form) + const


def gmm_log_likelihood(x: np.ndarray, model: GmmModel) -> float:
    """log p(x | model) for one vector: the one-row case of the batch kernel."""
    x = np.asarray(x, dtype=np.float64)
    return float(_logsumexp(_log_joint(x[None, :], model))[0])


def gmm_log_likelihoods(features: np.ndarray, model: GmmModel | ModelBank) -> np.ndarray:
    """Per-vector log-likelihoods for a feature matrix: shape (N,) under a
    model, (N, S) under a bank of S speakers."""
    features = np.asarray(features, dtype=np.float64)
    joint = _log_joint(features, model)
    if isinstance(model, ModelBank):
        return _logsumexp(joint.reshape(joint.shape[0], -1, len(model.speakers)), axis=1)
    return _logsumexp(joint)


def em_train(features: np.ndarray, init: GmmModel, cfg: ModelConfig) -> GmmModel:
    """Refine a mixture with a fixed number of EM passes.

    Each pass computes responsibilities from the current parameters, then
    re-estimates weights (mean responsibility), means, and floored diagonal
    variances.  A component whose total responsibility collapses is
    re-seeded on the worst-scoring vector and training continues.

    Returns the final model with the log-likelihood trace attached
    (initial value plus one per pass).
    """
    features = np.asarray(features, dtype=np.float64)
    num = features.shape[0]
    if num < 10 * init.num_components:
        warnings.warn(
            f"only {num} vectors for {init.num_components} components; "
            "estimates may be unreliable",
            stacklevel=2,
        )
    features = _canonical_order(features)
    floor = variance_floor(features, cfg.variance_floor_factor)
    global_var = np.maximum(features.var(axis=0), floor)

    weights = init.weights.copy()
    means = init.means.copy()
    variances = init.variances.copy()
    model = GmmModel(weights=weights, means=means, variances=variances)
    trace = []
    for _ in range(cfg.em_iterations):
        joint = _log_joint(features, model)
        per_vector = _logsumexp(joint)
        trace.append(float(per_vector.sum()))
        resp = np.exp(joint - per_vector[:, None])
        totals = resp.sum(axis=0)

        # Dividing by the clamped totals leaves live components exact and
        # keeps collapsed ones finite until they are re-seeded below.
        clamped = np.maximum(totals, COLLAPSE_THRESHOLD)[:, None]
        weights = totals / num
        means = (resp.T @ features) / clamped
        second = (resp.T @ features**2) / clamped
        variances = np.maximum(second - means**2, floor)
        collapsed = np.flatnonzero(totals < COLLAPSE_THRESHOLD)
        if collapsed.size:
            worst = np.argsort(per_vector, kind="stable")
            for slot, j in enumerate(collapsed):
                means[j] = features[worst[slot % num]]
                variances[j] = global_var
                weights[j] = 1.0 / num
            weights = weights / weights.sum()

        model = GmmModel(weights=weights, means=means, variances=variances)
    trace.append(float(gmm_log_likelihoods(features, model).sum()))
    return replace(model, em_log_likelihoods=tuple(trace))
