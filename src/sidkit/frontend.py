"""Speech preprocessing: silence removal, pre-emphasis, framing, windowing.

The same chain feeds every feature stream: energy-gated silence removal on
the raw waveform, first-order pre-emphasis, then fixed-length overlapping
frames tapered by a Hamming window.

``AudioSignal`` is the type read and written by ``sidkit.audio_io``; the
stages take and return plain float64 sample arrays, and :func:`preprocess`
returns the utterance's ``(num_frames, frame_len)`` frame matrix, the
input of every feature extractor.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .config import PreprocessConfig
from .errors import EmptyAfterVad, SignalTooShort


@dataclass(frozen=True)
class AudioSignal:
    """A mono waveform with its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        check_sample_rate(self.sample_rate, ValueError)


def check_sample_rate(rate, error: type[Exception]) -> None:
    """Raise ``error`` unless ``rate`` is a positive int; a ``bool`` is not one."""
    if isinstance(rate, bool) or not isinstance(rate, numbers.Integral):
        raise error(f"sample_rate must be an int, got {rate!r}")
    if rate <= 0:
        raise error(f"sample_rate must be positive, got {rate}")


def hamming_window(length: int) -> np.ndarray:
    """Raised-cosine taper w(n) = 0.54 - 0.46 cos(2 pi n / (length - 1))."""
    return np.hamming(length)


def remove_silence(samples: np.ndarray, cfg: PreprocessConfig) -> np.ndarray:
    """Drop non-overlapping frame-sized blocks below the energy threshold.

    A block survives when its mean-square energy exceeds
    ``silence_energy_ratio`` times the utterance-average block energy.
    Surviving blocks are concatenated in order; a trailing partial block is
    ignored.

    Raises:
        EmptyAfterVad: no block exceeds the threshold.
    """
    block_len = cfg.frame_len
    num_blocks = len(samples) // block_len
    if num_blocks == 0:
        raise EmptyAfterVad("signal shorter than one block")
    blocks = samples[: num_blocks * block_len].reshape(num_blocks, block_len)
    energies = np.mean(blocks * blocks, axis=1)
    threshold = cfg.silence_energy_ratio * float(np.mean(energies))
    keep = energies > threshold
    if not np.any(keep):
        raise EmptyAfterVad("every block below the energy threshold")
    return blocks[keep].ravel()


def pre_emphasize(x: np.ndarray, coeff: float) -> np.ndarray:
    """First-order high-pass: y(n) = x(n) - coeff * x(n-1), y(0) = x(0)."""
    if x.size == 0:
        raise ValueError("signal must be non-empty")
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - coeff * x[:-1]
    return y


def frame_and_window(x: np.ndarray, cfg: PreprocessConfig) -> np.ndarray:
    """Slice into overlapping frames and apply the Hamming window.

    Frames start at multiples of ``frame_shift``; a trailing partial frame
    is discarded.  Returns the ``(num_frames, frame_len)`` frame matrix.

    Raises:
        SignalTooShort: fewer samples than one frame.
    """
    if x.size < cfg.frame_len:
        raise SignalTooShort(f"{x.size} samples < frame length {cfg.frame_len}")
    windows = np.lib.stride_tricks.sliding_window_view(x, cfg.frame_len)
    return windows[:: cfg.frame_shift] * hamming_window(cfg.frame_len)


def preprocess(signal: AudioSignal, cfg: PreprocessConfig) -> np.ndarray:
    """Full chain: silence removal, pre-emphasis, framing and windowing of
    ``signal``'s samples, giving its ``(num_frames, frame_len)`` frame matrix."""
    voiced = remove_silence(signal.samples, cfg)
    emphasized = pre_emphasize(voiced, cfg.pre_emphasis)
    return frame_and_window(emphasized, cfg)


def frame_matrix(frames) -> np.ndarray:
    """``frames`` as a float64 ``(num_frames, frame_len)`` matrix.

    Raises:
        ValueError: ``frames`` is not two-dimensional.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError("frames must be a 2-D array (num_frames, frame_len)")
    return frames
