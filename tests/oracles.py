"""Reference forms the tests hold the library to.

Each is the plain, one-frame, one-model, one-speaker or one-pulse
statement of something the pipeline computes in batch; ``sidkit`` itself calls none of
them.  The mixture oracles follow Reynolds & Rose 1995 (IEEE TSAP 3(1)):
a model's score is the log of its weighted sum of diagonal Gaussian
densities.
"""

import numpy as np

from sidkit.corpus import SyntheticSpeakerSpec
from sidkit.errors import InsufficientData
from sidkit.gmm import (
    _KMEANS_MAX_PASSES,
    COLLAPSE_THRESHOLD,
    LOG_TWO_PI,
    GmmStack,
    ModelBank,
    _canonical_order,
    _cell_means,
    _exp_clamped,
    _floor_of,
    _quadratic_form_of,
    _reseed_empty_cells,
    _stats,
    gmm_log_likelihoods,
)
from sidkit.lpc import LpFrames
from sidkit.residual_moments import _peak_normalize


def predict(frame: np.ndarray, lp: LpFrames) -> np.ndarray:
    """Predictor output -sum_k a(k) s(n-k) of one frame, zero history before it."""
    frame = np.asarray(frame, dtype=np.float64)
    conv = np.convolve(frame, lp.a)[: frame.size]
    shifted = np.concatenate(([0.0], conv[:-1]))
    return -shifted


def levinson_durbin(r: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Levinson-Durbin frames-first, ``alpha`` held as (frames, order): the
    layout the recursion had before it ran frames-last.  Returns alpha and
    the mask of rows whose prediction error stayed positive and finite."""
    alpha = np.zeros((r.shape[0], order))
    err = r[:, 0].copy()
    ok = err > 0.0
    for i in range(order):
        acc = r[:, i + 1] - np.einsum("ij,ij->i", alpha[:, :i], r[:, i:0:-1])
        k = acc / err
        prev = alpha[:, :i]
        alpha[:, :i] = prev - k[:, None] * prev[:, ::-1]
        alpha[:, i] = k
        err *= 1.0 - k * k
        ok &= (err > 0.0) & np.isfinite(err)
    return alpha, ok & np.all(np.isfinite(alpha), axis=1)


def normalize_residual(residual: np.ndarray) -> np.ndarray:
    """Scale a residual frame (or each row of a matrix) so its peak is exactly 1.

    Raises:
        ValueError: a residual is empty or identically zero.
    """
    residual = np.asarray(residual, dtype=np.float64)
    if residual.size == 0:
        raise ValueError("residual must be non-empty")
    normalized, nonzero = _peak_normalize(residual)
    if not np.all(nonzero):
        raise ValueError("all-zero residual cannot be normalized")
    return normalized


def variance_floor(features: np.ndarray, factor: float) -> np.ndarray:
    """Per-dimension floor: factor times the global variance of the data."""
    x = np.asarray(features, dtype=np.float64)
    return np.maximum(factor * x.var(axis=0), 1e-12)


ARRAYS = ("weights", "means", "variances")


def mixture(weights, means, variances, size: int = 0) -> GmmStack:
    """One speaker's model of ``weights`` (M,) and ``means`` and
    ``variances`` (M, D): a stack of one, trained on ``size`` rows."""
    return GmmStack(*(np.asarray(a, dtype=np.float64)[None] for a in (weights, means, variances)),
                    sizes=(size,))


def row_of(stack: GmmStack, i: int) -> GmmStack:
    """Speaker ``i``'s model of ``stack``, trace included: a stack of one."""
    return GmmStack(*(getattr(stack, name)[i : i + 1] for name in ARRAYS),
                    sizes=stack.sizes[i : i + 1], traces=stack.traces[i : i + 1])


def component_log_density(x: np.ndarray, i: int, model: GmmStack) -> float:
    """Log of the i-th component's Gaussian density at one vector, under a
    stack of one."""
    x = np.asarray(x, dtype=np.float64)
    diff = x - model.means[0, i]
    return float(
        -0.5
        * (
            model.dim * LOG_TWO_PI
            + np.sum(np.log(model.variances[0, i]))
            + np.sum(diff * diff / model.variances[0, i])
        )
    )


def bank_of(models: dict[str, GmmStack]) -> ModelBank:
    """The bank of speaker id -> stack of one, its rows stacked in id order."""
    speakers = sorted(models)
    return ModelBank(speakers, *(np.concatenate([getattr(models[speaker], name)
                                                 for speaker in speakers])
                                 for name in ARRAYS))


def model_log_likelihoods(features: np.ndarray, model: GmmStack) -> np.ndarray:
    """Per-vector log-likelihoods (N,) under a stack of one, scored as a bank of one."""
    return gmm_log_likelihoods(features, bank_of({"": model}))[:, 0]


def gmm_log_likelihood(x: np.ndarray, model: GmmStack) -> float:
    """log p(x | model) for one vector: the one-row case of the batch kernel."""
    return float(model_log_likelihoods(np.asarray(x, dtype=np.float64)[None, :], model)[0])


def _nearest_centroid_one(scaled, sq_norms, centroids):
    sq = sq_norms + scaled @ centroids.T
    sq += (centroids * centroids).sum(axis=1)
    return sq.argmin(axis=1)


def _kmeans_one(features, scaled, sq_norms, centroids):
    labels = None
    for _ in range(_KMEANS_MAX_PASSES):
        new_labels = _nearest_centroid_one(scaled, sq_norms, centroids)
        if labels is not None and (new_labels == labels).all():
            return centroids, labels
        labels = new_labels
        counts = np.bincount(labels, minlength=centroids.shape[0])
        centroids = _cell_means(features, labels, counts)
        if counts.min() == 0:
            empty = np.flatnonzero(counts == 0)
            centroids = _reseed_empty_cells(features, centroids, labels, empty)
    return centroids, None


def lbg_init_one(features, num_components, cfg) -> GmmStack:
    """One speaker's LBG initialization, trained alone, as a stack of one:
    the reference every row of a ``gmm.lbg_init`` stack must equal bit for bit."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] < num_components:
        raise InsufficientData(f"{features.shape[0]} vectors for {num_components} components")
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
        centroids, labels = _kmeans_one(features, scaled, sq_norms, centroids)

    if labels is None:
        labels = _nearest_centroid_one(scaled, sq_norms, centroids)
    counts = np.bincount(labels, minlength=num_components)
    for _ in range(10):
        if counts.min() > 0:
            break
        empty = np.flatnonzero(counts == 0)
        centroids = _reseed_empty_cells(features, centroids, labels, empty)
        labels = _nearest_centroid_one(scaled, sq_norms, centroids)
        counts = np.bincount(labels, minlength=num_components)
    else:
        raise InsufficientData("could not populate every cell; too few distinct vectors")

    means = _cell_means(features, labels, counts)
    scatter = features - means[labels]
    variances = np.maximum(_cell_means(scatter * scatter, labels, counts), floor)
    return mixture(counts / counts.sum(), means, variances, size=features.shape[0])


def em_train_one(features, init: GmmStack, cfg) -> GmmStack:
    """One speaker's EM refinement of a stack of one, trained alone: the
    reference every row of a ``gmm.em_train`` stack must equal bit for bit,
    trace included."""
    features = np.asarray(features, dtype=np.float64)
    num, dim = features.shape
    features = _canonical_order(features)
    centre = features.mean(axis=0)
    shifted = features - centre
    stats = _stats(shifted)
    data_var = features.var(axis=0)
    floor = _floor_of(data_var, cfg.variance_floor_factor)
    global_var = np.maximum(data_var, floor)

    weights, offsets, variances = init.weights[0], init.means[0] - centre, init.variances[0]
    trace = []
    for iteration in range(cfg.em_iterations + 1):
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

    return GmmStack(*(a[None] for a in (weights, offsets + centre, variances)),
                    sizes=(num,), traces=(tuple(trace),))


def synthesize_utterance(
    spec: SyntheticSpeakerSpec, num_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """One synthetic utterance, its pulse train placed one pulse at a time."""
    from scipy.signal import lfilter

    excitation = rng.standard_normal(num_samples) * spec.noise_floor
    pos = int(rng.integers(0, spec.pitch_period))
    while pos < num_samples:
        excitation[pos] += 1.0
        spacing = spec.pitch_period * (1.0 + spec.jitter * rng.uniform(-1.0, 1.0))
        pos += max(int(round(spacing)), 2)
    denom = np.concatenate(([1.0], spec.filter_coeffs))
    samples = lfilter([1.0], denom, excitation)
    peak = np.max(np.abs(samples))
    if peak > 0.0:
        samples = samples * (0.7 / peak)
    return samples
