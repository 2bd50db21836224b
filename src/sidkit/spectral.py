"""Vocal-tract features: filterbank cepstra (mel or linear) and LP cepstra.

MFCC and LFCC share one path: power spectrum, triangular filterbank,
log energies, type-II DCT with the dc coefficient discarded.  LPCC comes
from the cepstral recursion on the all-pole model coefficients.

Both extractors take an utterance's ``(num_frames, frame_len)`` frame matrix
(:func:`~sidkit.frontend.preprocess`) and the ``[spectral]`` config section.
MFCC/LFCC is one ``rfft``, one matmul with the mel or linear filterbank and
one with the DCT matrix, both built once per shape and cached; LPCC is one
:func:`~sidkit.lpc.compute_lp` solve and the cepstral recursion across all
frames.  Each helper also takes a single frame (the one-row case along the
last axis).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import SpectralConfig
from .errors import NoUsableFrames
from .frontend import frame_matrix
from .lpc import compute_lp

# Filterbank outputs below this value are clamped before the log.
LOG_ENERGY_FLOOR = 1e-10

_SCALES = {"mfcc": "mel", "lfcc": "linear"}  # the filterbank of each kind


def mel_from_hz(freq):
    """Perceptual mel scale: 2595 log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(freq, dtype=np.float64) / 700.0)


def hz_from_mel(mels):
    return 700.0 * (10.0 ** (np.asarray(mels, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=None)
def make_filterbank(num_filters: int, fft_size: int, sample_rate: int, scale: str) -> np.ndarray:
    """Read-only ``(num_filters, fft_size // 2 + 1)`` weight matrix of a
    peak-normalized triangular filterbank over [0, sample_rate/2].

    Filter edges are equally spaced on the chosen scale; each filter's upper
    edge is the next filter's center.  Weights are the continuous unit-peak
    triangles evaluated at the FFT bin frequencies.  The matrix is built
    once per argument tuple and cached.
    """
    if scale not in ("mel", "linear"):
        raise ValueError(f"scale must be 'mel' or 'linear', got {scale!r}")
    nyquist = sample_rate / 2.0
    if scale == "mel":
        edges = hz_from_mel(np.linspace(0.0, mel_from_hz(nyquist), num_filters + 2))
    else:
        edges = np.linspace(0.0, nyquist, num_filters + 2)
    bin_freqs = np.arange(fft_size // 2 + 1) * (sample_rate / fft_size)
    lo, center, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bin_freqs - lo) / (center - lo)
    falling = (hi - bin_freqs) / (hi - center)
    weights = np.clip(np.minimum(rising, falling), 0.0, 1.0)
    weights.setflags(write=False)
    return weights


def power_spectrum(frame: np.ndarray, fft_size: int) -> np.ndarray:
    """Magnitude-squared spectrum over fft_size/2 + 1 bins, zero-padded, per row."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape[-1] > fft_size:
        raise ValueError(f"frame length {frame.shape[-1]} exceeds fft size {fft_size}")
    spectrum = np.fft.rfft(frame, n=fft_size, axis=-1)
    return spectrum.real**2 + spectrum.imag**2


def filterbank_energies(spectrum: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """Log outputs of the ``make_filterbank`` weights ``bank`` per row,
    floored at LOG_ENERGY_FLOOR before the log."""
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if spectrum.shape[-1] != bank.shape[1]:
        raise ValueError("spectrum length does not match the filterbank width")
    raw = spectrum @ bank.T
    return np.log(np.maximum(raw, LOG_ENERGY_FLOOR))


@lru_cache(maxsize=None)
def _dct_matrix(num_filters: int, num_cepstra: int) -> np.ndarray:
    """Read-only ``(num_filters, num_cepstra)`` matrix of the orthonormal
    type-II DCT, coefficients 1..num_cepstra (the dc column dropped)."""
    n = np.arange(num_filters)[:, None]
    k = np.arange(1, num_cepstra + 1)[None, :]
    matrix = np.sqrt(2.0 / num_filters) * np.cos(np.pi * k * (2 * n + 1) / (2 * num_filters))
    matrix.setflags(write=False)
    return matrix


def cepstra_from_energies(energies: np.ndarray, num_cepstra: int) -> np.ndarray:
    """Orthonormal type-II DCT of the log energies per row, dc coefficient dropped."""
    energies = np.asarray(energies, dtype=np.float64)
    if num_cepstra >= energies.shape[-1]:
        raise ValueError("num_cepstra must be below the number of filters")
    return energies @ _dct_matrix(energies.shape[-1], num_cepstra)


def lpcc_from_lp(lp_a: np.ndarray, num_cepstra: int) -> np.ndarray:
    """Cepstrum of the all-pole model 1/A(z) by the standard recursion, per
    row of the predictor coefficients ``lp_a`` (``LpFrames.a``).

    c_n = -a_n - (1/n) sum_{k=1..n-1} k c_k a_{n-k}, with a_m = 0 beyond
    the model order.  Frames without a usable predictor hold zero
    coefficients and so get zero cepstra.
    """
    lp_a = np.asarray(lp_a, dtype=np.float64)
    a = np.zeros(lp_a.shape[:-1] + (num_cepstra + 1,))
    upto = min(lp_a.shape[-1], num_cepstra)
    a[..., 1 : upto + 1] = lp_a[..., :upto]
    c = np.zeros_like(a)
    for n in range(1, num_cepstra + 1):
        k = np.arange(1, n)
        acc = a[..., n] + np.sum(k * c[..., 1:n] * a[..., n - 1 : 0 : -1], axis=-1) / n
        c[..., n] = -acc
    return c[..., 1:]


def extract_filterbank_cepstra(
    frames: np.ndarray, cfg: SpectralConfig, sample_rate: int
) -> np.ndarray:
    """Cepstral matrix (num_frames, num_cepstra) for MFCC or LFCC, as
    ``cfg.kind`` says, from a frame matrix of audio at ``sample_rate``.

    Raises:
        ValueError: ``cfg.kind`` is not a filterbank kind, or ``frames`` is
            not a 2-D frame matrix.
    """
    if cfg.kind not in _SCALES:
        raise ValueError(f"filterbank cepstra need kind mfcc or lfcc, got {cfg.kind!r}")
    bank = make_filterbank(cfg.num_filters, cfg.fft_size, sample_rate, _SCALES[cfg.kind])
    spectra = power_spectrum(frame_matrix(frames), cfg.fft_size)
    return cepstra_from_energies(filterbank_energies(spectra, bank), cfg.num_cepstra)


def extract_lpcc(frames: np.ndarray, cfg: SpectralConfig) -> np.ndarray:
    """LPCC matrix for an utterance's frame matrix, from an order
    ``cfg.lpcc_lp_order`` solve; degenerate frames are skipped.

    Raises:
        ValueError: ``cfg.kind`` is not lpcc, or ``frames`` is not a 2-D
            frame matrix.
        NoUsableFrames: every frame was degenerate.
    """
    if cfg.kind != "lpcc":
        raise ValueError(f"LPCC needs kind lpcc, got {cfg.kind!r}")
    lp = compute_lp(frame_matrix(frames), cfg.lpcc_lp_order)
    if not np.any(lp.usable):
        raise NoUsableFrames("all frames degenerate for LPCC extraction")
    return lpcc_from_lp(lp.a, cfg.num_cepstra)[lp.usable]
