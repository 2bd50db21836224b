"""Linear prediction via the autocorrelation method, on whole frame matrices.

Coefficients follow the inverse-filter sign convention
``A(z) = 1 + sum_k a(k) z^-k``, i.e. the predictor output is
``-sum_k a(k) s(n-k)`` and the residual is ``e(n) = s(n) + sum_k a(k) s(n-k)``.

Every stage works along the last axis, so one call handles either a single
frame of shape ``(frame_len,)`` or an utterance's ``(num_frames, frame_len)``
frame matrix: autocorrelation is one shifted multiply-and-sum per lag, the
Levinson-Durbin order loop runs over all frames at once, and inverse
filtering is one multiply-and-sum over a sliding window of lagged samples.
A single frame is solved as a one-row matrix, so its result is bit-identical
to that frame's row in a matrix solve, and a degenerate frame is marked
unusable in either case rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative ridge added to the zero-lag autocorrelation so near-silent
# frames stay solvable without measurably biasing the coefficients.
AUTOCORR_RIDGE = 1e-9


@dataclass(frozen=True)
class LpFrames:
    """Predictors a(1)..a(p) of one frame, or one row of ``a`` per frame.

    ``usable`` (shaped like the frames without their last axis) marks the
    frames whose solve succeeded.  Degenerate frames (zero energy, or a
    prediction error that collapsed mid-recursion) hold zero coefficients.
    """

    a: np.ndarray
    usable: np.ndarray

    @property
    def order(self) -> int:
        return self.a.shape[-1]


def autocorrelation(frame: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocorrelation r(0..max_lag) with zero extension, per frame."""
    frame = np.asarray(frame, dtype=np.float64)
    size = frame.shape[-1]
    return np.stack(
        [np.einsum("...i,...i->...", frame[..., lag:], frame[..., : size - lag])
         for lag in range(max_lag + 1)],
        axis=-1,
    )


def _levinson_durbin(r: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Order-recursive solve of the Toeplitz normal equations, one row per frame.

    Returns the forward predictor weights alpha(1..order) with
    ``s_hat(n) = sum_k alpha(k) s(n-k)``, and a mask of the rows whose
    prediction error stayed positive and finite through every order.
    Rows outside the mask hold garbage.
    """
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


def compute_lp(frames: np.ndarray, order: int) -> LpFrames:
    """Fit order-p predictors to one frame or a ``(num_frames, frame_len)``
    matrix by the autocorrelation method, all frames in one solve.

    Degenerate frames are marked in ``usable`` and get zero coefficients.
    They divide by zero or overflow on their way to the mask; those
    floating-point warnings are silenced, since the mask reports them.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim not in (1, 2):
        raise ValueError("expected one frame or a (num_frames, frame_len) matrix")
    if order < 1:
        raise ValueError("order must be >= 1")
    if frames.shape[-1] <= order:
        raise ValueError(f"frame length {frames.shape[-1]} must exceed order {order}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = autocorrelation(frames.reshape(-1, frames.shape[-1]), order)
        r[:, 0] *= 1.0 + AUTOCORR_RIDGE
        alpha, usable = _levinson_durbin(r, order)
        a = np.where(usable[:, None], -alpha, 0.0)
    lead = frames.shape[:-1]
    return LpFrames(a=a.reshape(lead + (order,)), usable=usable.reshape(lead))


def inverse_filter(frames: np.ndarray, lp: LpFrames) -> np.ndarray:
    """Residual e(n) = s(n) + sum_k a(k) s(n-k), zero history before each frame.

    Takes one frame or a frame matrix with the :class:`LpFrames` that
    :func:`compute_lp` returned for it.  Each output sample is one dot
    product of the taps [a(p)..a(1), 1] with the lagged window s(n-p..n)
    of a zero-padded copy of its frame.
    """
    frames = np.asarray(frames, dtype=np.float64)
    order = lp.order
    if order >= frames.shape[-1]:
        raise ValueError("predictor order must be below the frame length")
    padded = np.concatenate((np.zeros(frames.shape[:-1] + (order,)), frames), axis=-1)
    windows = np.lib.stride_tricks.sliding_window_view(padded, order + 1, axis=-1)
    taps = np.concatenate((lp.a[..., ::-1], np.ones(lp.a.shape[:-1] + (1,))), axis=-1)
    return np.einsum("...nk,...k->...n", windows, taps)

