"""Reference forms the tests hold the library to.

Each is the plain, one-frame, one-model or one-pulse statement of
something the pipeline computes in batch; ``sidkit`` itself calls none of
them.  The mixture oracles follow Reynolds & Rose 1995 (IEEE TSAP 3(1)):
a model's score is the log of its weighted sum of diagonal Gaussian
densities.
"""

import numpy as np

from sidkit.corpus import SyntheticSpeakerSpec
from sidkit.gmm import LOG_TWO_PI, GmmModel, ModelBank, gmm_log_likelihoods
from sidkit.lpc import LpFrames
from sidkit.residual_moments import _peak_normalize


def predict(frame: np.ndarray, lp: LpFrames) -> np.ndarray:
    """Predictor output -sum_k a(k) s(n-k) of one frame, zero history before it."""
    frame = np.asarray(frame, dtype=np.float64)
    conv = np.convolve(frame, lp.a)[: frame.size]
    shifted = np.concatenate(([0.0], conv[:-1]))
    return -shifted


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


def model_log_likelihoods(features: np.ndarray, model: GmmModel) -> np.ndarray:
    """Per-vector log-likelihoods (N,) under one model, scored as a bank of one."""
    return gmm_log_likelihoods(features, ModelBank({"": model}))[:, 0]


def gmm_log_likelihood(x: np.ndarray, model: GmmModel) -> float:
    """log p(x | model) for one vector: the one-row case of the batch kernel."""
    return float(model_log_likelihoods(np.asarray(x, dtype=np.float64)[None, :], model)[0])


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
