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

Training fits a stack: one stream's vectors of S speakers in one ``(sum
N_i, D)`` matrix, speaker after speaker, ``sizes[i]`` rows for speaker
``i``.  ``lbg_init`` and ``em_train`` fit one independent mixture per
speaker in one call and return a ``GmmStack``.  Each model keeps the bits
of training its speaker alone, whichever speakers share the stack:

- each speaker's rows are put in canonical order on their own, and its
  column reductions (mean, variance, trace sum) run on its rows alone;
- every BLAS product stays per speaker, in the shapes above, since BLAS may
  block another shape differently;
- only row-wise and elementwise work runs over the whole stack: distances
  and their argmin, the quadratic forms, ``exp`` and the sums over
  components, and the cell sums, one ``bincount`` whose cells are offset
  by speaker (cell ``i*K + k``), so each cell still adds its own speaker's
  rows in row order;
- the rare paths (empty-cell reseeds, the final repopulation, collapse
  reseeds) run speaker by speaker on its own rows.

The Lloyd passes of a split stop once no speaker's labels change; a speaker
that converged earlier recomputes its own centroids and labels, bit for
bit.  What the stack saves is numpy's per-call overhead, which dominates
problems of 8 components by a few hundred vectors.

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

A ``ModelBank`` holds the S models of one stream as the ``(S, M)`` and
``(S, M, D)`` arrays of a ``GmmStack``, so that one product scores a batch
against every speaker, one column per speaker in id order.  Whoever stacks
the arrays has checked their shapes; ``ModelStore.load`` checks each
record's against ``config.ini``.  The bank's ``S*M`` components are
component-major (column ``m*S + s`` is component ``m`` of speaker ``s``)
in one contiguous ``(2D+1, S*M)`` matrix, the ``(N, S*M)`` joint is
viewed as ``(N, M, S)``, and the log-sum-exp runs over its middle axis,
which numpy reduces faster than a short last axis.  The bank has one shift, the mean of all ``S*M``
component means.  Beyond the rounding of the score itself, trading a
speaker's own shift for the bank's costs about ``eps * sum_d delta_d**2 /
var_d`` nats per vector, ``delta`` being the gap between the two shifts.
On trained stores of the synthetic corpora that kept every utterance total
within 5e-13 of scoring each model alone, relatively; speakers that hold
one dimension constant, at the variance floor, at different values push it
to ~1e-7 nats, which the tests pin against this bound.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .errors import InsufficientData

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
        if not all(np.isfinite(arr).all() for arr in (weights, means, variances)):
            raise ValueError("weights, means and variances must be finite")
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


@dataclass(frozen=True, eq=False)
class GmmStack:
    """Independent mixtures, one per speaker, trained from one stacked
    feature matrix: ``sizes[i]`` rows for speaker ``i``, speaker after speaker.

    ``weights`` is (S, M), ``means`` and ``variances`` are (S, M, D).
    ``traces[i]`` is speaker ``i``'s EM log-likelihood trace, empty before
    EM.  ``models()[i]`` is speaker ``i``'s ``GmmModel``.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    sizes: tuple[int, ...]
    traces: tuple[tuple[float, ...], ...] = ()

    @property
    def em_log_likelihoods(self) -> tuple[float, ...]:
        """The stack's total training log-likelihood at initialization and
        after each EM pass: the sum of its speakers' traces."""
        return tuple(sum(values) for values in zip(*self.traces))

    def models(self) -> list[GmmModel]:
        traces = self.traces or ((),) * len(self.sizes)
        return [
            GmmModel(weights=w, means=m, variances=v, em_log_likelihoods=t)
            for w, m, v, t in zip(self.weights, self.means, self.variances, traces)
        ]


def _quadratic_form_of(
    weights: np.ndarray, offsets: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """Rows ``[A_m, c_m]`` (..., K, 2D + 1) of the quadratic form in the
    module docstring for K components whose means lie at ``offsets`` (...,
    K, D) from the shift: the coefficients of ``[y*y, y, 1]``.  Leading
    axes, such as a training stack's speakers, are independent."""
    precisions = 1.0 / variances
    with np.errstate(divide="ignore"):
        log_weights = np.log(weights)
    const = log_weights - 0.5 * (
        offsets.shape[-1] * LOG_TWO_PI
        + np.log(variances).sum(axis=-1)
        + (offsets * offsets * precisions).sum(axis=-1)
    )
    return np.concatenate(
        [-0.5 * precisions, offsets * precisions, const[..., None]], axis=-1
    )


def _stats(shifted: np.ndarray) -> np.ndarray:
    """``[y*y, y, 1]`` (N, 2D + 1) for shifted vectors ``y`` (N, D): the
    terms whose coefficients are the rows ``[A_m, c_m]``."""
    return np.hstack([shifted * shifted, shifted, np.ones((shifted.shape[0], 1))])


class ModelBank:
    """The models of one stream, one per speaker, stacked for scoring.

    ``weights`` is (S, M) and ``means`` and ``variances`` are (S, M, D),
    row ``s`` being speaker ``speakers[s]``: the arrays a ``GmmStack``
    holds.  ``num_components`` counts all ``S*M`` stacked Gaussians.  The
    quadratic form is ``(2D+1, S*M)``: column ``m*S + s`` holds ``[A_m,
    c_m]`` of speaker ``speakers[s]``, and one shift serves every speaker
    (see the module docstring).

    Raises:
        ValueError: no speakers, ``speakers`` not strictly increasing, or
            not one per row of the arrays.
    """

    def __init__(self, speakers, weights: np.ndarray, means: np.ndarray, variances: np.ndarray):
        self.speakers = tuple(speakers)
        if not self.speakers:
            raise ValueError("no speakers to score against")
        if list(self.speakers) != sorted(set(self.speakers)):
            raise ValueError(f"speakers must be strictly increasing, got {self.speakers}")
        if means.shape[0] != len(self.speakers):
            raise ValueError(f"{len(self.speakers)} speakers for {means.shape[0]} models")
        self.dim = means.shape[2]
        self.num_components = weights.size
        # Component-major: row m*S + s is component m of speaker s.
        means = means.transpose(1, 0, 2).reshape(-1, self.dim)
        self._shift = means.mean(axis=0)
        self._form = np.ascontiguousarray(_quadratic_form_of(
            weights.T.reshape(-1),
            means - self._shift,
            variances.transpose(1, 0, 2).reshape(-1, self.dim),
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


def _spans(features: np.ndarray, sizes) -> list[slice]:
    """Each speaker's rows of a stacked ``(sum(sizes), D)`` feature matrix.

    Raises:
        ValueError: ``features`` is not 2-D, or ``sizes`` does not split its rows.
    """
    if features.ndim != 2:
        raise ValueError("features must be (num_vectors, dim)")
    sizes = [operator.index(size) for size in sizes]
    bounds = [0, *itertools.accumulate(sizes)]
    if not sizes or bounds[-1] != features.shape[0] or min(sizes) < 0:
        raise ValueError(f"sizes {sizes} do not split {features.shape[0]} rows")
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _canonical_stack(features: np.ndarray, spans: list[slice]) -> np.ndarray:
    """The stacked matrix with each speaker's rows in their own canonical order."""
    return np.concatenate([_canonical_order(features[span]) for span in spans])


def _nearest_centroid(
    scaled: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray, spans: list[slice]
) -> np.ndarray:
    """Index of each vector's nearest centroid among its own speaker's
    ``centroids[i]`` (K, D).  ``scaled`` is ``-2 * features`` and ``sq_norms``
    the vectors' squared norms as a column; both stay fixed while the
    centroids move.  Scaling by -2 is exact, so every distance has the bits
    of ``|x|^2 - 2 x.c + |c|^2`` for that speaker alone."""
    sq = np.empty((scaled.shape[0], centroids.shape[1]))
    for span, own, own_sq in zip(spans, centroids, (centroids * centroids).sum(axis=2)):
        block = sq[span]
        np.matmul(scaled[span], own.T, out=block)
        block += sq_norms[span]
        block += own_sq
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
    two agree bit for bit (1-D data aside, where numpy sums pairwise).  A
    stack's cells are offset by speaker, ``i * K + k``, so each speaker's
    cells hold its own rows in its own order.
    """
    dim = features.shape[1]
    # Row j of the table holds cell j's bins; taking rows is the fast gather.
    bins = np.arange(counts.size * dim).reshape(counts.size, dim).take(labels, axis=0)
    sums = np.bincount(bins.ravel(), weights=features.ravel(), minlength=counts.size * dim)
    return sums.reshape(counts.size, dim) / np.maximum(counts, 1)[:, None]


class _LbgRows:
    """A stack's canonical LBG rows, the distance terms that stay fixed while
    the centroids move, and each row's speaker."""

    def __init__(self, features: np.ndarray, spans: list[slice]):
        self.features, self.spans = features, spans
        self.scaled = -2.0 * features
        self.sq_norms = np.sum(features**2, axis=1)[:, None]
        self.speaker = np.repeat(np.arange(len(spans)), [span.stop - span.start for span in spans])

    def nearest(self, centroids: np.ndarray) -> np.ndarray:
        return _nearest_centroid(self.scaled, self.sq_norms, centroids, self.spans)


def _kmeans(rows: _LbgRows, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """At most ``_KMEANS_MAX_PASSES`` Lloyd passes over every speaker at once.

    Returns the centroids and, when a pass computed them, their labels.  The
    passes stop once no speaker's labels change.  A speaker whose labels
    repeated earlier gets the same centroids and labels again from each
    further pass, bit for bit: its centroids were computed from those very
    labels.  So every speaker ends as if it had stopped on its own."""
    shape = centroids.shape
    # Speaker i's cells are i * K + k, so one bincount serves every speaker.
    first_cell = rows.speaker * shape[1]
    labels = None
    for _ in range(_KMEANS_MAX_PASSES):
        new_labels = rows.nearest(centroids)
        if labels is not None and (new_labels == labels).all():
            return centroids, labels
        labels = new_labels
        cells = first_cell + labels
        counts = np.bincount(cells, minlength=shape[0] * shape[1])
        centroids = _cell_means(rows.features, cells, counts).reshape(shape)
        if counts.min() == 0:
            counts = counts.reshape(shape[:2])
            for i in np.flatnonzero(counts.min(axis=1) == 0):
                span = rows.spans[i]
                _reseed_empty_cells(rows.features[span], centroids[i], labels[span],
                                    np.flatnonzero(counts[i] == 0))
    return centroids, None


def lbg_init(
    features: np.ndarray, sizes, num_components: int, cfg: ModelConfig, names=None
) -> GmmStack:
    """Binary-splitting VQ initialization of one mixture per speaker.

    ``features`` stacks the speakers' vectors, ``sizes[i]`` rows for speaker
    ``i``.  Starting from each speaker's global centroid, each codeword is
    split into a +/- perturbed pair (epsilon times the per-dimension
    standard deviation) and refined by Lloyd passes until ``num_components``
    cells exist.  Each split gets at most ``_KMEANS_MAX_PASSES`` passes and
    stops early when a pass reassigns no vector: the codebook only seeds EM.
    Cell occupancies give the weights; cell scatter gives the floored
    variances.  Every speaker's model has the bits of training it alone.

    ``names[i]`` (default ``speaker i``) prefixes an error about speaker ``i``.

    Raises:
        InsufficientData: a speaker has fewer vectors than components, or its
            cells cannot all be populated; the first such speaker is named.
    """
    features = np.asarray(features, dtype=np.float64)
    spans = _spans(features, sizes)
    if num_components < 1 or num_components & (num_components - 1):
        raise ValueError(f"need a power-of-two component count, got {num_components}")
    names = names or [f"speaker {i}" for i in range(len(spans))]
    sizes = tuple(span.stop - span.start for span in spans)
    for name, size in zip(names, sizes):
        if size < num_components:
            raise InsufficientData(f"{name}: {size} vectors for {num_components} components")
    features = _canonical_stack(features, spans)
    rows = _LbgRows(features, spans)
    global_var = np.stack([features[span].var(axis=0) for span in spans])
    floor = _floor_of(global_var, cfg.variance_floor_factor)[:, None]
    delta = cfg.lbg_split_epsilon * np.sqrt(global_var)[:, None]
    centroids = np.stack([features[span].mean(axis=0, keepdims=True) for span in spans])
    labels = None
    while centroids.shape[1] < num_components:
        centroids = np.concatenate([centroids + delta, centroids - delta], axis=1)
        centroids, labels = _kmeans(rows, centroids)

    if labels is None:
        labels = rows.nearest(centroids)
    shape = centroids.shape
    counts = np.bincount(rows.speaker * shape[1] + labels, minlength=shape[0] * shape[1])
    counts = counts.reshape(shape[:2])
    # A speaker left with an empty cell is repopulated on its own rows alone.
    for i in np.flatnonzero(counts.min(axis=1) == 0):
        span = spans[i]
        own_labels = labels[span]
        for _ in range(10):
            if counts[i].min() > 0:
                break
            empty = np.flatnonzero(counts[i] == 0)
            _reseed_empty_cells(features[span], centroids[i], own_labels, empty)
            own_labels = _nearest_centroid(rows.scaled[span], rows.sq_norms[span],
                                           centroids[i : i + 1], [slice(None)])
            counts[i] = np.bincount(own_labels, minlength=num_components)
        else:
            raise InsufficientData(
                f"{names[i]}: could not populate every cell; too few distinct vectors"
            )
        labels[span] = own_labels

    cells = rows.speaker * shape[1] + labels
    means = _cell_means(features, cells, counts.ravel())
    scatter = features - means[cells]
    variances = _cell_means(scatter * scatter, cells, counts.ravel()).reshape(shape)
    return GmmStack(
        weights=counts / counts.sum(axis=1, keepdims=True),
        means=means.reshape(shape),
        variances=np.maximum(variances, floor),
        sizes=sizes,
    )


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


def em_train(features: np.ndarray, init: GmmStack, cfg: ModelConfig) -> GmmStack:
    """Refine every mixture of a stack with a fixed number of EM passes.

    ``features`` is the stacked matrix ``init`` was trained on, split by
    ``init.sizes``.  Each pass computes responsibilities from the current
    parameters, then re-estimates weights (mean responsibility), means, and
    floored diagonal variances.  A component whose total responsibility
    collapses is re-seeded on its speaker's worst-scoring vector and
    training continues.

    Means and moments are kept about each speaker's training-data mean
    (module docstring).  Every speaker's model and trace have the bits of
    training it alone.

    Returns the final stack with each speaker's log-likelihood trace
    attached (initial value plus one per pass).
    """
    features = np.asarray(features, dtype=np.float64)
    spans = _spans(features, init.sizes)
    dim = features.shape[1]
    nums = np.array(init.sizes)[:, None]
    features = _canonical_stack(features, spans)
    centre = np.stack([features[span].mean(axis=0) for span in spans])
    shifted = features - np.repeat(centre, init.sizes, axis=0)
    # [y*y, y, 1]: the E-step's inputs, and the M-step's moments and totals.
    stats = _stats(shifted)
    data_var = np.stack([features[span].var(axis=0) for span in spans])
    floor = _floor_of(data_var, cfg.variance_floor_factor)[:, None]
    global_var = np.maximum(data_var, floor[:, 0])

    weights, offsets, variances = init.weights, init.means - centre[:, None], init.variances
    joint = np.empty((init.weights.shape[1], features.shape[0]))
    traces = []
    for iteration in range(cfg.em_iterations + 1):
        # Components along axis 0, so every reduction over them runs over
        # rows; each speaker's product fills its own columns.
        for span, form in zip(spans, _quadratic_form_of(weights, offsets, variances)):
            np.matmul(form, stats[span].T, out=joint[:, span])
        peak = joint.max(axis=0)
        joint -= peak
        resp = _exp_clamped(joint)
        density = resp.sum(axis=0)
        per_vector = np.log(density) + peak
        traces.append([float(per_vector[span].sum()) for span in spans])
        if iteration == cfg.em_iterations:
            break
        resp /= density
        moments = np.empty(weights.shape + (stats.shape[1],))
        for i, span in enumerate(spans):
            np.matmul(resp[:, span], stats[span], out=moments[i])
        totals = moments[..., -1]
        weights = totals / nums

        # Dividing by the clamped totals leaves live components exact and
        # keeps collapsed ones finite until they are re-seeded below.
        moments[..., :-1] /= np.maximum(totals, COLLAPSE_THRESHOLD)[..., None]
        offsets = moments[..., dim:-1]
        variances = np.maximum(moments[..., :dim] - offsets * offsets, floor)
        if totals.min() < COLLAPSE_THRESHOLD:
            for i in np.flatnonzero(totals.min(axis=1) < COLLAPSE_THRESHOLD):
                span, num = spans[i], init.sizes[i]
                worst = np.argsort(per_vector[span], kind="stable")
                for slot, j in enumerate(np.flatnonzero(totals[i] < COLLAPSE_THRESHOLD)):
                    offsets[i, j] = shifted[span][worst[slot % num]]
                    variances[i, j] = global_var[i]
                    weights[i, j] = 1.0 / num
                weights[i] = weights[i] / weights[i].sum()

    return GmmStack(weights, offsets + centre[:, None], variances, init.sizes,
                    tuple(zip(*traces)))
