"""Vocal-source features: central moments of the peak-normalized LP residual.

Each frame is inverse-filtered, scaled so the residual peaks at +/-1, and
summarized by its central moments of orders 2 through K+1.  The first-order
moment is zero by construction and therefore not emitted.

Features are computed on an utterance's ``(num_frames, frame_len)`` frame
matrix (:func:`~sidkit.frontend.preprocess`) under the ``[residual]`` config
section, with one :func:`~sidkit.lpc.compute_lp` solve whose ``usable``
mask, with the all-zero residuals, picks the frames skipped and counted.
The per-frame helpers are the one-row case of the same kernels along the
last axis, so a frame's features do not depend on its neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ResidualConfig
from .errors import NoUsableFrames
from .frontend import frame_matrix
from .lpc import compute_lp, inverse_filter


@dataclass(frozen=True)
class ResidualMomentFeatures:
    """Per-frame moment vectors plus the count of skipped degenerate frames."""

    vectors: np.ndarray
    skipped_frames: int = 0


def _peak_normalize(residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row to unit peak; also return the mask of non-zero rows."""
    peak = np.max(np.abs(residuals), axis=-1, keepdims=True)
    nonzero = peak[..., 0] > 0.0
    return residuals / np.where(peak > 0.0, peak, 1.0), nonzero


def central_moments(residual: np.ndarray, num_moments: int) -> np.ndarray:
    """Central moments m_2 .. m_(num_moments+1) of a residual frame, per row.

    Powers of the deviations are running products, one multiply per order.
    """
    residual = np.asarray(residual, dtype=np.float64)
    if num_moments < 1:
        raise ValueError("num_moments must be >= 1")
    deviations = residual - residual.mean(axis=-1, keepdims=True)
    power = deviations * deviations
    moments = [power.mean(axis=-1)]
    for _ in range(num_moments - 1):
        power *= deviations
        moments.append(power.mean(axis=-1))
    return np.stack(moments, axis=-1)


def extract_residual_moments(frames: np.ndarray, cfg: ResidualConfig) -> ResidualMomentFeatures:
    """Run the residual-moment pipeline over an utterance's frame matrix:
    order ``cfg.lp_order`` prediction, ``cfg.num_moments`` moments per frame.

    One batched predictor solve, inverse filter, peak normalization and
    moment pass cover every frame.  Degenerate frames are skipped and
    counted.

    Raises:
        ValueError: ``frames`` is not a 2-D frame matrix, or has no rows.
        NoUsableFrames: every frame was degenerate.
    """
    frames = frame_matrix(frames)
    if len(frames) == 0:
        raise ValueError("frame matrix must have at least one row")
    lp = compute_lp(frames, cfg.lp_order)
    normalized, nonzero = _peak_normalize(inverse_filter(frames, lp))
    usable = lp.usable & nonzero
    skipped = len(frames) - int(np.count_nonzero(usable))
    if skipped == len(frames):
        raise NoUsableFrames(f"all {skipped} frames degenerate")
    vectors = central_moments(normalized[usable], cfg.num_moments)
    return ResidualMomentFeatures(vectors, skipped_frames=skipped)
